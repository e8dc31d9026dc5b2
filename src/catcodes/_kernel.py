"""The rate kernel shared by cat and concatenated cat codes, batched over noise.

Both rates are sums of w (1 - h) over (composition, flip-count) cells.  An
ensemble of n channel classes with weights w_t is spread over M outer blocks:
a composition k counts the blocks per class, and within it the flip counts
j_t in 0..k_t say how many blocks of class t carry the amplitude flip.  Each
cell holds four products over the blocks,

    a0 = prod_t alpha_t^j_t  abar_t^(k_t-j_t)    b0 = prod_t beta_t^j_t  bbar_t^(k_t-j_t)
    a1 = prod_t alpha_t^(k_t-j_t) abar_t^j_t     b1 = prod_t beta_t^(k_t-j_t) bbar_t^j_t

with alpha = p_x + p_y, abar = p_i + p_z, beta = p_x - p_y, bbar = p_i - p_z,
and h is the entropy of the conditional logical channel
((a0 + b0), (a1 + b1), (a1 - b1), (a0 - b0)) / 2(a0 + a1).  An m-cat code is
the one-class case (w = 1, M = m); a concatenated code's classes are the
inner code's syndrome-weight classes (`inner_ensemble`).

Class arrays are (n, P, ...), so one call evaluates a whole p-grid: `rate_sums`
takes the classes' log weights (n, P) and channels (n, P, 4), and `factors`
derives their logs and signs.  Reductions run over the last, contiguous axis and
all other operations are elementwise, so a point's rate does not depend on the
batch it is evaluated in.  Per class, the p-dependent vectors over j_t are built a
range of counts k_t at a time (a small code's counts in one range), in log domain
with log binomials from `math.lgamma`, their p-independent parts cached per range.
The builder divides each count's vector by its maximum, so lengths in the thousands
neither underflow nor overflow, and returns the log s of that maximum; each caller
adds its own scale terms (`rate_sums`: k_t log w_t + s - lgamma(k_t + 1)).  A cell's
products are then plain products of these vectors, taken in class order, and
conditional probabilities are ratios of the cell's own four values.

Flipping every block maps cell j to its mirror k - j and swaps (a0, b0) with
(a1, b1), which leaves the weight a0 + a1 and the entropy unchanged.  The
per-cell multiplicity of syndromes with the first block unflipped,
prod C(k_t, j_t) (M - |j|) / M, sums over a mirror pair to prod C(k_t, j_t),
so only the first half of the cells is evaluated.

Compositions are walked in lexicographic order.  The cells of classes 0..n-2
extend those a composition shares with the previous one, and the last class's
vector completes them into the composition's C-order cells, written side by side
with those of the compositions before it into one reused buffer (under a prefix of
zero counts, as in every cat code, the vector is the cells).  Both products are
`np.einsum` outer products, np.multiply's IEEE products except that a -0.0 may be
written as +0.0: only b-cells can be -0.0 and |b| <= a, so a +- b is the same float
either way.  A run of compositions evaluates the entropies of their first halves
and mirrors in one pass, in planes of one buffer per call (a composition too large
for it in chunks of its first half); each composition's sum is one pairwise sum over
its own cells.  `_add_terms` gives a run's terms, one row per composition; `rate_sums`
adds them in order, and `cat_sums`, whose codes (each on its own points) are one
composition each, keeps one row per code.

A threshold's coarse pre-scan needs only most points' signs, and a composition's term is
at most its multinomial weight in magnitude (|1 - h| <= 1, and its cells' w sum to that
weight).  `certified_sums` therefore walks with a subtree predicate (`_compositions`'
`keep`, built by `_pruner`): a subtree of the walk, the compositions sharing a prefix of
counts, is skipped where its closed-form weight is below `PRUNE_LEVEL` at every point,
and that weight goes to the point's remainder.  A point whose partial sum exceeds its
remainder in magnitude by `SIGN_MARGIN`, far above the rounding budget given with it, is
certified.  The points whose full sums are still wanted are completed by a second walk over
the skipped compositions only, at those points, whose rows go in among the first walk's in
the full order: `rate_sums`' bits, with each composition evaluated once.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate

import numpy as np

TINY = np.finfo(float).tiny
# Largest points x cells of a run of compositions evaluated together (a larger
# composition is a run of its own), and of a range of counts of one class's vectors
# (at the largest count).  A run's planes fit in one 640 KiB buffer per call; the kernel
# frees no array over 768 KiB, as that raises glibc's mmap threshold for the process
# (and speeds up the large temporaries of perfbench's probe).  At 1 << 14, one 5-in-16
# point peaks at 1.64 MB.
CELL_BUDGET = 1 << 13
# Largest points x cells of the largest composition at once: `rate_sums` evaluates
# more points in slices, so one large composition does not hold a whole p-grid.
SLICE_BUDGET = 1 << 20
# Largest number of (composition, flip-count) cells one rate evaluation sums
# over: the work, which grows as C(M + 2n - 1, 2n - 1) for n-in-M.  Admits
# 7-in-16 (67,863,915 cells); 5-in-30 has 211,915,132.
MAX_CELLS = 100_000_000
# Largest number of compositions C(M + n - 1, n - 1) of one rate evaluation: at about
# 10-15 us each for one point (0.42-0.63 s for one point of 30-in-4's 40,920), 10-15 s.
MAX_COMPOSITIONS = 1_000_000
# `certified_sums`: the walk skips each subtree of compositions whose weight is below
# PRUNE_LEVEL at every point, and a partial sum certifies a point's sign if its magnitude
# exceeds the skipped weight by SIGN_MARGIN.  The margin covers what rounding adds to the float
# partial sum, the float full sum and the float remainder.  The compositions' weights sum to 1,
# so each error below is absolute:
# - a term's cells are products of n + 1 factors and the exp of a log scale summed in n + 2
#   steps from parts of magnitude up to L (lgamma(M + 1) is the largest: 31 for M = 16, 4,800
#   for the largest admitted M), so a term is within about (3n + 2L + 10) eps of its value
#   relative, and |1 - h| exceeds 1 by a few eps at most (log2 ulps, h's four-term sum);
# - a composition's pairwise sum over its cells adds log2(cells) eps of its weight;
# - the in-order sum over N compositions adds at most N eps, to the partial and the full sum;
# - each skipped subtree's closed form (lgammas, a log-sum-exp, one exp) is within about
#   (2L + 10) eps relative.
# For 5-in-16 (N = 4,845, L = 31) that is about 2.2e-12 in all, and below 5e-10 for any
# admitted code (N <= MAX_COMPOSITIONS), against a margin of 2^-20 = 9.5e-7.  The level was
# the best or within 0.05 of it, of 1e-2, 1e-3 and 1e-4, on `search._pre_scan` (both passes)
# for 3-in-19, 4-in-12 and 5-in-9 on depolarizing noise, 3-in-19 on 9:1 and 4-in-12 on
# two-Pauli noise: 0.68-0.81x the full pass's time, against 0.77-0.98x at 1e-4.
PRUNE_LEVEL = 1e-3
SIGN_MARGIN = 2.0 ** -20


class CompositionLimitError(RuntimeError):
    """The grouped enumeration exceeds `MAX_CELLS` cells or `MAX_COMPOSITIONS` compositions."""

    def __init__(self, count: int, cap: int):
        what = "compositions" if cap == MAX_COMPOSITIONS else "(composition, flip-count) cells"
        super().__init__(f"{count} {what} exceed the cap of {cap}")
        self.count, self.cap = count, cap


def capped_counts(n: int, big_m: int) -> tuple[int, int]:
    """Compositions C(M + n - 1, n - 1) and cells C(M + 2n - 1, 2n - 1) of one rate evaluation
    of n classes over M = big_m blocks; raises `CompositionLimitError` past a cap, cells first."""
    compositions, cells = math.comb(big_m + n - 1, n - 1), math.comb(big_m + 2 * n - 1, 2 * n - 1)
    for count, cap in ((cells, MAX_CELLS), (compositions, MAX_COMPOSITIONS)):
        if count > cap:
            raise CompositionLimitError(count, cap)
    return compositions, cells


def _compositions(total: int, parts: int, keep=None):
    """(first, composition) for the compositions of `total` into `parts` counts >= 0, in
    lexicographic order, where `first` is the first count that differs from the previous
    composition's (0 for the first one): each step moves a unit from the last nonzero
    count t > 0 to t - 1, so t - 1 changes first, and the rest to the end.

    With `keep`, the walk asks keep(d, comp) at each subtree it enters, shallowest first: the
    compositions that share comp[:d + 1], d = 0..parts-2, whose first one is comp (counts
    d+1..parts-2 zero, the rest comp[-1] last).  A subtree it declines is skipped whole, so
    the compositions yielded are a subsequence of the full order, each with the first count
    that differs from the previous one yielded."""
    comp, t = [0] * (parts - 1) + [total], parts - 1 if total else 0
    first = entered = 0  # the first count changed since the last yield; the depth entered
    while True:
        if keep is None or (declined := next(
                (d for d in range(entered, parts - 1) if not keep(d, comp)), None)) is None:
            yield first, tuple(comp)
            first = t - 1
        else:
            if declined < parts - 2 and comp[-1]:  # on to the subtree's last composition
                comp[declined + 1], comp[-1], t = comp[-1], 0, declined + 1
            first = min(first, t - 1)
        if not t:
            return
        comp[t - 1], comp[t], comp[-1] = comp[t - 1] + 1, 0, comp[t] - 1
        entered, t = t - 1, parts - 1 if comp[-1] else t - 1


@functools.lru_cache(maxsize=64)
def _cells(lo: int, hi: int) -> tuple:
    """The p-independent parts of the flip-count vectors of counts k = lo..hi >= 1, whose
    cells (k, j), j = 0..k, lie side by side, shared by every caller and read-only: per
    cell, j and k - j as (2, 1, cells), where they are > 0, log C(k, j), and the signs of
    b0 (4, cells) where neither, only bbar, only beta or both of beta and bbar are < 0;
    per count as (counts, 1), k + 1, k and lgamma(k + 1); and each count's first cell."""
    counts = np.arange(lo, hi + 1)
    starts = np.cumsum(counts + 1) - (counts + 1)
    k = np.repeat(counts, counts + 1)
    j = np.arange(len(k)) - np.repeat(starts, counts + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(hi + 1)])
    log_c = log_fact[k] - (log_fact[j] + log_fact[k - j])  # exactly symmetric in j <-> k - j
    sign_j, sign_k_less_j = np.where(np.array([j, k - j]) % 2, -1.0, 1.0)  # (-1)^j, (-1)^(k-j)
    signs = np.array([np.ones(len(k)), sign_k_less_j, sign_j, sign_j * sign_k_less_j])
    index = np.array([j, k - j], dtype=float)[:, None]
    parts = index, index > 0, log_c, signs, counts + 1, counts[:, None], log_fact[counts, None]
    for part in parts:
        part.flags.writeable = False
    return *parts, tuple(starts.tolist())


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


def factors(probs: np.ndarray) -> tuple:
    """The logs of alpha, abar, |beta| and |bbar| and the signs of beta and bbar
    (True if < 0) of channels (..., 4) in slot order I, X, Y, Z, each (...)."""
    p_i, p_x, p_y, p_z = (probs[..., slot] for slot in range(4))
    beta, bbar = p_x - p_y, p_i - p_z
    return (*_log(np.array([p_x + p_y, p_i + p_z, np.abs(beta), np.abs(bbar)])),
            beta < 0.0, bbar < 0.0)


def log_vectors(factors: tuple, lo: int, hi: int) -> tuple:
    """The unscaled log a0 and log |b0| of one class with `factors` at P points over the
    cells of `_cells(lo, hi)` as two terms, each (2, P, cells): j log alpha and j log |beta|,
    and (k - j) log abar and (k - j) log |bbar|; and the sign of b0 (+1.0 or -1.0), (P, cells)."""
    index, positive, _, signs = _cells(lo, hi)[:4]
    # alpha and |beta| to the j, abar and |bbar| to the k - j; 0 at 0 even where x = 0
    log_x = np.array(factors[:4]).reshape(2, 2, -1, 1)
    powers = np.multiply(log_x, index, out=np.zeros(log_x.shape[:3] + index.shape[-1:]), where=positive)
    return powers[:, 0], powers[:, 1], signs[2 * factors[4] + factors[5]]


def _class_vectors(factors: tuple, lo: int, hi: int) -> tuple:
    """Per count k = lo..hi, the (a0, b0) of one class with `factors` at P points over flip
    counts j = 0..k, binomial C(k, j) included, divided by their largest C(k, j) a0(j): a
    (2, P, k+1) view of one table over the cells of `_cells`; and the logs s of those
    largest values, (P, counts)."""
    _, _, log_c, _, sizes, _, _, starts = _cells(lo, hi)
    j_term, k_less_j_term, sign_b0 = log_vectors(factors, lo, hi)
    log_ab0 = j_term + log_c
    log_ab0 += k_less_j_term
    s = np.maximum.reduceat(log_ab0[0], starts, axis=1)
    log_ab0 -= np.repeat(s, sizes, axis=1)
    out = np.exp(log_ab0, out=log_ab0)
    out[1] *= sign_b0
    return [out[..., a:a + k + 1] for k, a in zip(range(lo, hi + 1), starts)], s


def _conditionals(front: np.ndarray, mirror: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Joint probabilities (4, P, count) of cells `front` (2, P, count), each paired
    with its mirror, the same place of `mirror`, in slot order I, X, Y, Z, and the
    weights a0 + a1 (P, count); in the planes of `out` (5, P, count) if given."""
    (a0, b0), (a1, b1) = front, mirror
    cond = np.empty((4,) + a0.shape) if out is None else out[:4]
    np.add(a0, b0, out=cond[0])
    np.add(a1, b1, out=cond[1])
    np.subtract(a1, b1, out=cond[2])
    np.subtract(a0, b0, out=cond[3])
    return cond, np.add(a0, a1, out=None if out is None else out[4])


def _gains(cond: np.ndarray, weight: np.ndarray, scratch=None, logs=None, out=None) -> np.ndarray:
    """weight (1 - h) of cells of joint probabilities cond (4, P, count) and weights (P, count),
    in `out` if given, else in `scratch` (P, count) if given.  Works in cond and in `scratch`
    and `logs` (4, P, count) if given."""
    scratch = np.maximum(weight, TINY, out=scratch)
    np.divide(0.5, scratch, out=scratch)
    cond *= scratch
    np.maximum(cond, 0.0, out=cond)  # |b| <= a factorwise; clears roundoff
    logs = np.maximum(cond, TINY, out=logs)
    np.log2(logs, out=logs)
    cond *= logs
    g = np.add.reduce(cond, axis=0, out=scratch if out is None else out)  # ((c0 + c1) + c2) + c3
    g += 1.0
    g *= weight
    return g


def _add_terms(run: list, flat: np.ndarray) -> np.ndarray:
    """The terms scale * sum of w (1 - h), (len(run), P), of a run of compositions given as the
    log scales of their prefix and last count and their C-order cells (2, P, cells), the mirror
    of cell i at cells - 1 - i.  The run's arrays are ten planes (P, first-half cells) of buffer
    `flat`, which holds any run of several; a composition too large for it is evaluated in chunks
    of its first half, with only its w (1 - h) in a fresh plane."""
    prefix_scale, last_scale, grids = zip(*run)
    cells = [grid.shape[-1] for grid in grids]
    halves = [(count + 1) // 2 for count in cells]
    parts, points, width = list(zip(grids, halves)), grids[0].shape[1], sum(halves)
    step = len(flat) // (10 * points)
    gain = np.empty((points, width)) if width > step else None
    for a in range(0, width, step):
        b = min(a + step, width)
        planes = flat[:10 * points * (b - a)].reshape(10, points, -1)  # logs reuse front, mirror
        if len(run) > 1:  # one chunk: the first halves and their mirrors side by side
            front = np.concatenate([grid[..., :h] for grid, h in parts], -1, planes[0:2])
            mirror = np.concatenate([grid[..., :-h - 1:-1] for grid, h in parts], -1, planes[2:4])
        else:
            front, mirror = grids[0][..., a:b], grids[0][..., ::-1][..., a:b]
        cond, weight = _conditionals(front, mirror, planes[4:9])
        g = _gains(cond, weight, planes[9], planes[0:4], None if gain is None else gain[:, a:b])
    g = g if gain is None else gain
    sums = np.empty((len(run), points))
    for s, start, count in zip(sums, accumulate(halves[:-1], initial=0), cells):
        middle = start + count // 2  # the middle cell, if any, counts once for its pair
        np.add.reduce(g[:, start:middle], axis=1, out=s)  # one pairwise sum per composition
        if count % 2:
            s += 0.5 * g[:, middle]
    return np.exp(np.add(prefix_scale, last_scale)) * sums


def _buffer(points: int, halves: int) -> np.ndarray:
    """The runs' buffer: ten planes of P points x `halves` first-half cells (at least those of
    the largest run), but at most CELL_BUDGET points x cells (640 KiB) and at least P."""
    return np.empty(10 * max(points, min(CELL_BUDGET, points * halves)))


def _largest_cells(n: int, big_m: int) -> int:
    """Cells of the largest composition of M = big_m blocks over n classes, the most even one."""
    q, r = divmod(big_m, n)
    return (q + 2) ** r * (q + 1) ** (n - r)


def _fold(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """`total` (P,) plus the rows of `terms` (compositions, P) in order, as one += per row."""
    terms[0] += total
    return np.add.accumulate(terms, axis=0)[-1]


def rate_sums(log_w: np.ndarray, probs: np.ndarray, big_m: int) -> np.ndarray:
    """Sum of w (1 - h) over all cells at each of the P points, for n classes of log weights
    (n, P) and channels (n, P, 4) over M = big_m blocks: the rate times the number of physical
    qubits per logical qubit.  A code over a cap raises at once (`capped_counts`)."""
    n, points = log_w.shape
    capped_counts(n, big_m)
    step = max(1, SLICE_BUDGET // _largest_cells(n, big_m))
    if points > step:
        return np.concatenate([rate_sums(log_w[:, i:i + step], probs[:, i:i + step], big_m)
                               for i in range(0, points, step)])
    total = np.zeros(points)
    if points:
        for terms in _terms(log_w, probs, big_m, _compositions(big_m, n)):
            total = _fold(total, terms)
    return total


def _terms(log_w: np.ndarray, probs: np.ndarray, big_m: int, walk):
    """`rate_sums`' terms of the compositions (first, comp) of `walk`, a subsequence of
    `_compositions`' order with its own `first` counts, at P >= 1 points: per run of
    compositions, their rows (run, P).  A composition's row does not depend on the walk."""
    n, points = log_w.shape
    classes = list(zip(*factors(probs)))  # six (P,) arrays per class
    # A class's counts are built in ranges of `span` when the walk first takes one; a small
    # code's range holds them all, and a range stays within CELL_BUDGET.
    lo, span = 1 if n > 1 else big_m, max(1, CELL_BUDGET // (points * (big_m + 1)))
    unit = np.ones((2, points, 1)), np.zeros(points)
    vectors = [{0: unit} for _ in classes]

    def vector(t: int, k: int) -> tuple:
        """Class t's scaled vectors at count k and their log scale less lgamma(k + 1), or
        the unit at k = 0 (a count of 0 carries a grid: 0 * log_w is NaN where w = 0)."""
        if k not in vectors[t]:
            a = k - (k - lo) % span
            b = min(a + span - 1, big_m)
            views, s = _class_vectors(classes[t], a, b)
            counts, log_fact = _cells(a, b)[5:7]
            vectors[t].update(zip(range(a, b + 1), zip(views, counts * log_w[t] + s.T - log_fact)))
        return vectors[t][k]

    # prefix[t]: cell grid (the unit before the first nonzero count) and log scale of the
    # classes before t, rebuilt from the first count that differs from the previous
    # composition's.
    prefix = [(unit[0], np.full(points, math.lgamma(big_m + 1)))] + [None] * (n - 1)
    run, width, work = [], 0, np.empty((2, points, 0))
    flat = _buffer(points, capped_counts(n, big_m)[1])
    for first, comp in walk:
        for t, k in enumerate(comp[first:-1], first):
            grid, log_scale = prefix[t]
            if k:
                vec, log_k = vector(t, k)
                grid = np.einsum("api,apj->apij", grid, vec).reshape(2, points, -1)
                log_scale = log_scale + log_k
            prefix[t + 1] = grid, log_scale
        grid, log_scale = prefix[-1]
        vec, log_k = vector(n - 1, comp[-1])
        cells = grid.shape[-1] * vec.shape[-1]
        if run and points * (width + cells) > CELL_BUDGET:
            yield _add_terms(run, flat)
            run, width = [], 0
        out = vec  # under the unit prefix the cells, as 1.0 x = x
        if grid is not unit[0]:  # the last class completes the C-order cells in work
            if cells > work.shape[-1]:  # a run within CELL_BUDGET always fits
                work = np.empty((2, points, max(cells, CELL_BUDGET // points)))
            out = work[..., width:width + cells]
            np.einsum("api,apj->apij", grid, vec, out=out.reshape(2, points, -1, vec.shape[-1]))
        run.append((log_scale, log_k, out))
        width += cells
    if run:
        yield _add_terms(run, flat)


def _walk(comps: list):
    """(first, comp) for compositions `comps` in `_compositions`' order: `first` is the first
    count that differs from the previous composition's (0 for the first one)."""
    prev = comps[0] if comps else ()
    for comp in comps:
        yield next((t for t, (a, b) in enumerate(zip(comp, prev)) if a != b), 0), comp
        prev = comp


def _pruner(log_w: np.ndarray, big_m: int, level: float) -> tuple:
    """A `keep` for `_compositions` of M = big_m blocks over n classes of log weights (n, P)
    that declines each subtree whose weight is below `level` at every point; the (P,)
    remainder to which it adds the weights it declines; and the list to which it appends
    each declined subtree as (d, comp), its depth and first composition.  By the multinomial
    theorem, the subtree of prefix (k_0..k_d) with R blocks left weighs
    M! / (k_0! ... k_d! R!) prod_t w_t^k_t (sum_{t>d} w_t)^R; a count or an R of 0 adds a
    factor 1, also where its weight is 0 (in log domain, 0 * -inf would be NaN)."""
    n, points = log_w.shape
    log_fact = [math.lgamma(k + 1) for k in range(big_m + 1)]
    rest = np.logaddexp.accumulate(log_w[::-1], axis=0)[::-1]  # log sum_{t' >= t} w_t', (n, P)
    counts = np.arange(big_m + 1).reshape(-1, 1, 1, 1)
    # powers[k, 0, t] = k log w_t and powers[k, 1, t] = k log sum_{t' >= t} w_t', 0 at k = 0.
    powers = np.multiply(counts, [log_w, rest], out=np.zeros((big_m + 1, 2, n, points)), where=counts > 0)
    log_level, remainder, declined = math.log(level), np.zeros(points), []
    # prefix[d]: the scalar and (P,) parts of the log weight of the counts before class d.
    prefix = [(log_fact[big_m], np.zeros(points))] + [None] * (n - 1)

    def keep(d: int, comp: list) -> bool:
        scale, log_weight = prefix[d]
        k, left = comp[d], comp[-1]
        prefix[d + 1] = scale, log_weight = scale - log_fact[k], log_weight + powers[k, 0, d]
        log_weight = log_weight + powers[left, 1, d + 1]
        scale -= log_fact[left]
        if log_weight.max() >= log_level - scale:
            return True
        remainder[:] += np.exp(log_weight + scale)
        declined.append((d, tuple(comp)))
        return False

    return keep, remainder, declined


def certified_sums(log_w: np.ndarray, probs: np.ndarray, big_m: int) -> tuple:
    """`rate_sums`' arguments; per point, its partial sum over the compositions a weight-pruned
    walk keeps, and whether that sum certifies the sign of the full sum, (P,) each; and
    complete(full), which gives the full sums of the points of a (P,) bool mask, bit for bit
    those of `rate_sums`.

    The walk skips each subtree of compositions lighter than `PRUNE_LEVEL` at every point
    (`_pruner`) and adds its weight to the point's remainder.  A composition's term is at most
    its weight in magnitude, as |1 - h| <= 1, so a point is certified where
    |partial| > remainder + `SIGN_MARGIN`.  `complete` evaluates the skipped compositions
    only, at the masked points, and adds every composition's row in the full walk's order: a
    row does not depend on the walk or the batch, so the sums are `rate_sums`' and the two
    passes evaluate each composition once.  Points that do not fit one slice are not pruned:
    their partial sums are their full sums, and none is certified."""
    n, points = log_w.shape
    if points * _largest_cells(n, big_m) > SLICE_BUDGET:
        sums = rate_sums(log_w, probs, big_m)
        return sums, np.zeros(points, bool), lambda full: sums[full]
    keep, remainder, declined = _pruner(log_w, big_m, PRUNE_LEVEL)
    walked = []

    def walk():
        for first, comp in _compositions(big_m, n, keep):
            walked.append(comp)
            yield first, comp

    terms = np.concatenate([np.zeros((0, points)), *_terms(log_w, probs, big_m, walk())])
    sums = _fold(np.zeros(points), terms.copy()) if len(terms) else np.zeros(points)

    def complete(full: np.ndarray) -> np.ndarray:
        if not full.any():
            return np.zeros(0)
        skipped = [comp[:d + 1] + rest for d, comp in declined for _, rest in _compositions(comp[-1], n - d - 1)]
        rows = np.concatenate([terms[:, full], *_terms(log_w[:, full], probs[:, full], big_m, _walk(skipped))])
        return _fold(np.zeros(rows.shape[1]), rows[np.lexsort(np.array(walked + skipped).T[::-1])])

    return sums, np.abs(sums) > remainder + SIGN_MARGIN, complete


def cat_sums(probs: np.ndarray, lengths) -> np.ndarray:
    """`rate_sums` of cat codes, one class of weight 1 each: code l over lengths[l] blocks on
    channels probs[l] (P, 4), as (L, P) in one pass, each row bit for bit that code's alone.
    Each code is one composition, and runs of codes in order are formed as in `rate_sums`."""
    points = probs.shape[1]
    cells = [capped_counts(1, m)[1] for m in lengths]
    step = max(1, SLICE_BUDGET // max(cells))
    if points > step:
        return np.concatenate([cat_sums(probs[:, i:i + step], lengths) for i in range(0, points, step)], 1)
    if not points:
        return np.zeros((len(lengths), 0))
    runs, width = [[]], 0
    for code, count in enumerate(cells):
        if runs[-1] and points * (width + count) > CELL_BUDGET:
            runs.append([])
            width = 0
        runs[-1].append(code)
        width += count
    flat = _buffer(points, max(sum((cells[code] + 1) // 2 for code in run) for run in runs))
    classes, rows = factors(probs), []  # six (L, P) arrays
    for run in runs:
        terms = []
        for code in run:
            [vec], s = _class_vectors([f[code] for f in classes], lengths[code], lengths[code])
            log_m = math.lgamma(lengths[code] + 1)
            terms.append((np.full(points, log_m), s[:, 0] - log_m, vec))
        rows.append(_add_terms(terms, flat))
    return np.concatenate(rows) + 0.0  # as `rate_sums` adds a code's one term to 0.0 (-0.0 reads +0.0)


def inner_ensemble(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-weight classes r = 0..n-1 of the n-cat code on channels (P, 4)
    given in the code's frame: log weights (n, P), with -inf for a class of
    probability 0, and conditional logical channels (n, P, 4) in slot order
    I, X, Y, Z (noiseless for a class of probability 0)."""
    [vec], s = _class_vectors(factors(probs), n, n)
    cond, weight = _conditionals(vec[..., :n], vec[..., :0:-1])
    zero = weight == 0.0
    cond /= 2.0 * np.where(zero, 1.0, weight)
    np.maximum(cond, 0.0, out=cond)
    cond[:, zero] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
    # A class's weight is C(n-1, r) (A0 + A1) = C(n, r) (A0 + A1) (n - r) / n.
    log_w = s + _log(weight) + np.log((n - np.arange(n)) / n)
    return log_w.T, cond.T
