"""Tests for the batched rate kernel: high-precision values at length 4096,
and batch results equal to single-point results bit for bit."""

import math

import mpmath
import numpy as np
import pytest

import catcodes.search as search
from catcodes import (
    Basis,
    CatCodeSpec,
    ConcatSpec,
    cat_rate,
    code_rate,
    code_rates,
    concat_rate,
    evaluate_family,
    make_family,
    permute_basis,
    threshold,
)
from catcodes import _kernel
from catcodes._kernel import _compositions
from conftest import EDGE_CHANNELS

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

    def pointwise(family, code, ps):
        return np.array([code_rate(family, code, p) for p in ps])

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
    # The rates index the channel slots of `basis`; permute_basis relabels the
    # channel objects instead.  Both must give the same bits.
    chs = channels20 + EDGE_CHANNELS
    relabelled = [permute_basis(ch, basis) for ch in chs]

    def bits(rate, chs, spec):
        return [rate(ch, spec).hex() for ch in chs]

    for m in (1, 2, 5, 33):
        want = bits(cat_rate, relabelled, CatCodeSpec(m))
        assert bits(cat_rate, chs, CatCodeSpec(m, basis)) == want
    for n, big_m in ((2, 3), (3, 5), (4, 1)):
        for outer in Basis:
            got = bits(concat_rate, chs, ConcatSpec(CatCodeSpec(n, basis), CatCodeSpec(big_m, outer)))
            want = bits(concat_rate, relabelled, ConcatSpec(CatCodeSpec(n), CatCodeSpec(big_m, outer)))
            assert got == want


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


def rebuilt_rate_sums(log_w, probs, big_m):
    """`_kernel.rate_sums` with every composition's cells formed from all of its
    class vectors and its log scale summed from lgamma(M + 1), in one chunk (a
    point's sum does not depend on its batch)."""
    n, points = log_w.shape
    classes = list(zip(*_kernel.factors(probs)))
    total = np.zeros(points)
    for _, comp in _compositions(big_m, n):
        parts = []
        log_scale = np.full(points, math.lgamma(big_m + 1))
        for t, k in enumerate(comp):
            if k:
                vec, log_k = _kernel._class_vectors(classes[t], log_w[t], k)
                parts.append(vec)
                log_scale += log_k - math.lgamma(k + 1)
        grid = parts[0]
        for i, vec in enumerate(parts[1:], 1):
            grid = grid[..., None] * vec.reshape(vec.shape[:2] + (1,) * i + vec.shape[2:])
        grid = grid.reshape(grid.shape[:2] + (-1,))
        scale = np.exp(log_scale)
        if scale.any():
            cells = grid.shape[-1]
            total += scale * _kernel._half_sum(*_kernel._conditionals(grid, (cells + 1) // 2), cells)
    return total


@pytest.mark.parametrize("n,big_m", [(1, 5), (2, 3), (3, 5), (5, 5), (4, 1), (12, 2), (30, 2)])
def test_shared_prefixes_keep_the_summation_order(n, big_m, channels20):
    # Reusing the cells a composition shares with the previous one must not
    # reassociate a product or a log-scale sum.  The noiseless channel gives
    # classes of probability 0: evaluated alone, their compositions are skipped,
    # and their counts of 0 carry a prefix unchanged.
    probs = np.array([ch.probs for ch in channels20 + EDGE_CHANNELS])
    for batch in [probs] + [row[None] for row in probs[len(channels20):]]:
        log_w, cond = _kernel.inner_ensemble(batch, n)
        want = [x.hex() for x in rebuilt_rate_sums(log_w, cond, big_m).tolist()]
        assert [x.hex() for x in _kernel.rate_sums(log_w, cond, big_m).tolist()] == want
