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
batch it is evaluated in.  Per (class, k_t), the p-dependent vectors over j_t are
built in log domain with log binomials from `math.lgamma` and scaled by their own
maximum, so lengths in the thousands neither underflow nor overflow; a cell's
products are then plain products of these vectors, taken in class order, and
conditional probabilities are ratios of the cell's own four values.

Flipping every block maps cell j to its mirror k - j and swaps (a0, b0) with
(a1, b1), which leaves the weight a0 + a1 and the entropy unchanged.  The
per-cell multiplicity of syndromes with the first block unflipped,
prod C(k_t, j_t) (M - |j|) / M, sums over a mirror pair to prod C(k_t, j_t),
so only the first half of the cells is evaluated.

Compositions are walked in lexicographic order as a prefix (classes 0..n-3),
whose cells extend those it shares with the previous prefix, and a split of the
remaining blocks between the last two classes.  A run of consecutive splits puts
the cells of their first halves at the start of one buffer and their mirrors at
its end, for one evaluation of their entropies; each composition's sum is one
pairwise sum over its own cells, and the sums are added in order.
"""

from __future__ import annotations

import math

import numpy as np

TINY = np.finfo(float).tiny
# Largest points x cells of a run of compositions evaluated together, counting a
# composition's first-half rows and their mirrors; a larger composition is a run of
# its own.  Its arrays stay under 128 KiB, below which malloc reuses heap memory
# instead of mapping fresh pages, whose faults cost more than the arithmetic.
CELL_BUDGET = 1 << 13


def _compositions(total: int, parts: int):
    """(first, composition) for the compositions of `total` into `parts` counts >= 0, in
    lexicographic order, where `first` is the first count that differs from the previous
    composition's (0 for the first one): each step moves a unit from the last nonzero
    count t > 0 to t - 1, so t - 1 changes first, and the rest to the end."""
    comp, t = [0] * (parts - 1) + [total], parts - 1 if total else 0
    yield 0, tuple(comp)
    while t:
        comp[t - 1], comp[t], comp[-1] = comp[t - 1] + 1, 0, comp[t] - 1
        yield t - 1, tuple(comp)
        t = parts - 1 if comp[-1] else t - 1


def _powers(log_x: np.ndarray, k: int) -> np.ndarray:
    """j log x for j = 0..k over (..., k+1), with 0 at j = 0 even where x = 0."""
    out = np.zeros(log_x.shape + (k + 1,))
    np.multiply(log_x[..., None], np.arange(1, k + 1), out=out[..., 1:])
    return out


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


def factors(probs: np.ndarray) -> tuple:
    """The logs of alpha, abar, |beta| and |bbar| and the signs of beta and bbar
    (True if < 0) of channels (..., 4) in slot order I, X, Y, Z, each (...)."""
    p_i, p_x, p_y, p_z = (probs[..., slot] for slot in range(4))
    beta, bbar = p_x - p_y, p_i - p_z
    return (*_log(np.array([p_x + p_y, p_i + p_z, np.abs(beta), np.abs(bbar)])),
            beta < 0.0, bbar < 0.0)


def log_vectors(factors: tuple, log_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled log a0 and log |b0| over flip counts j = 0..k of one class with `factors` at
    P points, as (2, P, k+1) with log_c[j] added, and the sign of b0 (+1.0 or -1.0)."""
    neg_b, neg_bbar = factors[4:]
    k = len(log_c) - 1
    powers = _powers(np.array(factors[:4]), k)  # alpha, abar, |beta|, |bbar|
    log_ab0 = log_c + powers[0::2] + powers[1::2, :, ::-1]
    alternating = np.ones(k + 1)
    alternating[1::2] = -1.0  # (-1)^j; reversed, (-1)^(k-j)
    sign_b0 = (np.where(neg_b[:, None], alternating, 1.0)
               * np.where(neg_bbar[:, None], alternating[::-1], 1.0))
    return log_ab0, sign_b0


def _class_vectors(factors: tuple, log_w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (a0, b0) of one class of log weight log_w (P,) over flip counts j = 0..k, as
    a (2, P, k+1) array with binomial C(k, j) included, and the log scale k log_w + s,
    where s is the log of the largest C(k, j) a0(j) at each point."""
    log_fact = np.array([math.lgamma(j + 1) for j in range(k + 1)])
    log_c = log_fact[k] - (log_fact + log_fact[::-1])  # exactly symmetric in j <-> k - j
    log_ab0, sign_b0 = log_vectors(factors, log_c)
    s = log_ab0[0].max(axis=1)
    out = np.exp(log_ab0 - s[:, None])
    out[1] *= sign_b0
    return out, k * log_w + s


def _conditionals(grid: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint probabilities (4, P, count) of the first `count` cells, each paired
    with its mirror, in slot order I, X, Y, Z, and the weights a0 + a1 (P, count)."""
    a0, b0 = grid[:, :, :count]
    a1, b1 = grid[:, :, ::-1][:, :, :count]
    cond = np.empty((4,) + a0.shape)
    np.add(a0, b0, out=cond[0])
    np.add(a1, b1, out=cond[1])
    np.subtract(a1, b1, out=cond[2])
    np.subtract(a0, b0, out=cond[3])
    return cond, a0 + a1


def _half_sum(cond: np.ndarray, weight: np.ndarray, cells, starts=0) -> np.ndarray:
    """Sum of weight (1 - h) over all cells of a composition of `cells` cells whose
    first half starts at `starts` in cond and weight, (P,): the sum over that half
    with the middle cell, if any, counted once for its pair.  Tuples of `cells` and
    `starts`, one entry per composition, give (len(cells), P)."""
    scratch = np.maximum(weight, TINY)
    np.divide(0.5, scratch, out=scratch)
    cond *= scratch
    np.maximum(cond, 0.0, out=cond)  # |b| <= a factorwise; clears roundoff
    logs = np.maximum(cond, TINY)
    np.log2(logs, out=logs)
    cond *= logs
    g = np.add.reduce(cond, axis=0, out=scratch)  # ((c0 + c1) + c2) + c3
    g += 1.0
    g *= weight
    several = isinstance(cells, tuple)
    sums = np.empty((len(cells) if several else 1, len(g)))
    for s, start, count in zip(sums, starts if several else (starts,), cells if several else (cells,)):
        middle = start + count // 2
        np.add.reduce(g[:, start:middle], axis=1, out=s)  # one pairwise sum per composition
        if count % 2:
            s += 0.5 * g[:, middle]
    return sums if several else sums[0]


def _add_terms(total: np.ndarray, grid: np.ndarray, count: int, run: list) -> np.ndarray:
    """`total` plus, in order, the terms scale * sum of w (1 - h) of a run of
    compositions whose first halves lie side by side in grid[..., :count] and their
    mirrors in the same places counted from its end.  The run lists, per composition,
    the log scales of its prefix and its last two counts, its cells and its start."""
    *scales, cells, starts = zip(*run)
    prefix_scale, a_scale, b_scale = np.array(scales)
    log_scale = prefix_scale + a_scale
    log_scale += b_scale
    terms = np.exp(log_scale) * _half_sum(*_conditionals(grid, count), cells, starts)
    terms[0] += total
    return np.add.accumulate(terms, axis=0)[-1]  # in order, as one += per composition


def rate_sums(log_w: np.ndarray, probs: np.ndarray, big_m: int) -> np.ndarray:
    """Sum of w (1 - h) over all cells at each of the P points, for n classes of
    log weights (n, P) and channels (n, P, 4) over M = big_m blocks: the rate
    times the number of physical qubits per logical qubit."""
    n, points = log_w.shape
    if not points:
        return np.zeros(0)
    classes = list(zip(*factors(probs)))  # six (P,) arrays per class
    unit = np.ones((2, points, 1)), np.zeros(points)

    def vector(t: int, k: int) -> tuple:
        """Class t's scaled vectors at count k and their log scale less lgamma(k + 1),
        or the unit at k = 0 (a count of 0 carries a grid: 0 * log_w is NaN where w = 0)."""
        if not k:
            return unit
        vec, log_k = _class_vectors(classes[t], log_w[t], k)
        return vec, log_k - math.lgamma(k + 1)

    # The last two classes by count; a cat code's one composition is the split (0, M).
    last_but_one = [vector(n - 2, a) for a in range(big_m + 1 if n > 1 else 1)]
    last = {b: vector(n - 1, b) for b in (range(big_m + 1) if n > 1 else [big_m])}
    head, vectors = max(n - 1, 1), {}  # the prefix classes 0..n-3, then the remainder
    # prefix[t]: cell grid (the unit before the first nonzero count) and log scale of
    # the classes before t, rebuilt from the first count that differs from the previous
    # composition's.  Cells are in C order: the mirror of cell i is cells - 1 - i.
    prefix = [(unit[0], np.full(points, math.lgamma(big_m + 1)))] + [None] * (head - 1)
    total, run, width, work = np.zeros(points), [], 0, np.empty((2, points, 0))
    for first, comp in _compositions(big_m, head):
        for t, k in enumerate(comp[first:-1], first):
            grid, log_scale = prefix[t]
            if k:
                vec, log_k = vectors[t, k] = vectors.get((t, k)) or vector(t, k)
                grid = (grid[..., None] * vec[:, :, None]).reshape(2, points, -1)
                log_scale = log_scale + log_k
            prefix[t + 1] = grid, log_scale
        grid, log_scale = prefix[head - 1]
        rest = comp[-1]
        for a, (vec, a_scale) in enumerate(last_but_one[:rest + 1]):
            # The split (a, b) of the last rest blocks: its C-order cells are rows x
            # (prefix cells times vec) each times last[b], row q mirroring row
            # len(x) - 1 - q, so the first half is the first `rows` rows and half the
            # middle row, if any, and its mirrors the same from the end.
            x = (grid[..., None] * vec[:, :, None]).reshape(2, points, -1) if a else grid
            b, (rows, odd) = rest - a, divmod(x.shape[-1], 2)
            cells = (x.shape[-1] * (b + 1) + 1) // 2
            if run and points * 2 * (width + cells) > CELL_BUDGET:
                total, run, width = _add_terms(total, work, width, run), [], 0
            if 2 * cells > work.shape[-1]:  # a run within CELL_BUDGET always fits
                work = np.empty((2, points, 2 * max(cells, CELL_BUDGET // (2 * points))))
            vec, b_scale = last[b]
            # First halves side by side from the start of work, their mirrors from its end.
            end, full = work.shape[-1] - width, rows * (b + 1)
            front, mirror = work[..., width:width + cells], work[..., end - cells:end]
            if rows:
                shape = (2, points, rows, b + 1)
                np.multiply(x[..., :rows, None], vec[:, :, None], out=front[..., :full].reshape(shape))
                np.multiply(x[..., -rows:, None], vec[:, :, None], out=mirror[..., cells - full:].reshape(shape))
            if odd:
                np.multiply(x[..., rows, None], vec[..., :cells - full], out=front[..., full:])
                np.multiply(x[..., rows, None], vec[..., full - cells:], out=mirror[..., :cells - full])
            run.append((log_scale, a_scale, b_scale, x.shape[-1] * (b + 1), width))
            width += cells
    return _add_terms(total, work, width, run)


def inner_ensemble(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-weight classes r = 0..n-1 of the n-cat code on channels (P, 4)
    given in the code's frame: log weights (n, P), with -inf for a class of
    probability 0, and conditional logical channels (n, P, 4) in slot order
    I, X, Y, Z (noiseless for a class of probability 0)."""
    vec, log_k = _class_vectors(factors(probs), np.zeros(len(probs)), n)
    cond, weight = _conditionals(vec, n)
    zero = weight == 0.0
    cond /= 2.0 * np.where(zero, 1.0, weight)
    np.maximum(cond, 0.0, out=cond)
    cond[:, zero] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
    # A class's weight is C(n-1, r) (A0 + A1) = C(n, r) (A0 + A1) (n - r) / n.
    log_w = log_k[:, None] + _log(weight) + np.log((n - np.arange(n)) / n)
    return log_w.T, cond.T
